"""Distributed execution smoke: N workers, one store, serial parity.

The CI ``distributed-smoke`` job (and anyone verifying a multi-node
setup) runs this as a script: it plans a small Table-II grid into a
fresh store directory, launches real worker processes
(``python -m repro.experiments.worker``) that split the grid through the
claim/lease protocol, then asserts the assembled store is

* **complete and bit-identical** to a serial run of the same grid,
* **clean** — zero claim files, zero stale leases, zero ``.tmp`` spool
  files left behind, and
* **leak-free** — no shared-memory segments added to ``/dev/shm``.

::

    PYTHONPATH=src python benchmarks/bench_distributed_smoke.py --workers 2
    PYTHONPATH=src python benchmarks/bench_distributed_smoke.py \
        --workers 2 --store-codec zlib      # stored payload <= 60% of raw
    PYTHONPATH=src python benchmarks/bench_distributed_smoke.py --elastic

``--elastic`` runs an autoscaled supervised fleet from a single starting
worker instead of a fixed one.  Pytest mode runs the same checks.
"""

from __future__ import annotations

import argparse
import glob
import json
import signal
import sys
import tempfile
import time
from pathlib import Path

from repro.experiments import dispatch
from repro.experiments.config import ExperimentConfig
from repro.experiments.executor import ExperimentExecutor
from repro.experiments.store import CellStore, default_store_codec

OUTPUT_DIR = Path(__file__).parent / "output"

SMOKE = ExperimentConfig(
    name="dist-smoke",
    size_factor=0.05,
    datasets=("S2", "S5", "S6"),
    n_splits=2,
    n_repeats=2,
    n_estimators=3,
)


#: Lease TTL for the elastic fleet: short enough that claims orphaned by
#: a mid-compute retirement are reaped within the smoke's budget.
ELASTIC_TTL = 3.0


def _run_fleet(target, units, n_workers, jobs, timeout, extra_args=()):
    """Plain fleet: spawn, wait, return (wall_seconds, extra_record)."""
    start = time.perf_counter()
    fleet = dispatch.spawn_workers(
        target, n_workers, jobs=jobs,
        stagger=max(1, len(units) // n_workers),
        extra_args=list(extra_args),
    )
    exit_codes = [p.wait(timeout=timeout) for p in fleet]
    wall = time.perf_counter() - start
    assert all(code == 0 for code in exit_codes), (
        f"worker exit codes: {exit_codes}"
    )
    return wall, {}


def _run_fleet_elastic(target, units, jobs, timeout, extra_args=()):
    """Elastic supervised fleet: start at one worker, let queue depth
    scale the fleet, and let lru work-stealing drain the tail.

    Pass conditions layered on top of parity: the supervisor provably
    scaled up at least once (the 12-cell grid is deep enough to pull in
    the whole allowed range), and every exit is benign — a finished
    worker (0/3) or a retirement/terminate SIGTERM the supervisor itself
    delivered.  Claims orphaned by a mid-compute retirement age out by
    the short lease TTL and are stolen by survivors — that is the
    "stragglers never serialise the tail" property under test.
    """
    def command_for(index: int) -> list[str]:
        return dispatch.worker_command(
            target, index, jobs=jobs, lease_ttl=ELASTIC_TTL,
            claim_order="lru",
            extra_args=["--poll", "0.1", "--max-idle", "120",
                        *extra_args],
        )

    supervisor = dispatch.FleetSupervisor(
        [command_for(0)], max_restarts=2,
        command_factory=command_for,
        min_workers=1, max_workers=3, scale_threshold=2,
        log=lambda message: print(f"[elastic] {message}", flush=True),
    )
    store = CellStore(target, lease_ttl=ELASTIC_TTL)
    start = time.perf_counter()
    supervisor.start()
    try:
        def fleet_dead() -> bool:
            supervisor.poll()
            return supervisor.fleet_dead()

        dispatch.wait_for_grid(
            store, units, poll=0.2, timeout=timeout,
            should_abort=fleet_dead,
            on_poll=lambda remaining: supervisor.autoscale(len(remaining)),
        )
    finally:
        supervisor.terminate()
    wall = time.perf_counter() - start

    summary = supervisor.summary()
    allowed = {0, 3, -signal.SIGTERM}
    unexpected = [
        code for entry in summary for code in entry["exit_codes"]
        if code not in allowed
    ]
    assert not unexpected, f"unexpected worker deaths: {summary}"
    assert supervisor.scale_ups >= 1, f"fleet never scaled up: {summary}"
    return wall, {
        "elastic": True,
        "scale_ups": supervisor.scale_ups,
        "scale_downs": supervisor.scale_downs,
        "worker_exit_codes": [entry["exit_codes"] for entry in summary],
    }


def run_smoke(n_workers: int = 2, jobs: int = 1, timeout: float = 600.0,
              elastic: bool = False, codec: str | None = None) -> dict:
    """One full distributed pass in a temp store directory; returns the
    record.

    ``elastic`` runs a queue-depth-autoscaled supervised fleet from a
    single starting worker instead of a fixed one.  ``codec`` pins the
    fleet's payload compression (default: the store's own default, zlib)
    — the record carries the stored-vs-raw byte accounting either way,
    and any compressing codec must land at ≤ 60% of the raw payload
    bytes.  Raises ``AssertionError`` on any contract violation (parity,
    leftover claims, leaked shared memory).
    """
    shm_before = set(glob.glob("/dev/shm/psm_*"))
    units = dispatch.plan_grid(SMOKE, ["table2"])
    serial = ExperimentExecutor(SMOKE, n_jobs=1, store=CellStore(None)).run(
        [u.spec for u in units]
    )
    codec_args = ["--store-codec", codec] if codec else []
    with tempfile.TemporaryDirectory(prefix="dist-smoke-") as target:
        dispatch.write_manifest(target, SMOKE, units)
        if elastic:
            wall, extra = _run_fleet_elastic(
                target, units, jobs, timeout, extra_args=codec_args
            )
        else:
            wall, extra = _run_fleet(
                target, units, n_workers, jobs, timeout,
                extra_args=codec_args,
            )

        store = CellStore(target, lease_ttl=ELASTIC_TTL) if elastic \
            else CellStore(target)
        for unit, reference in zip(units, serial):
            loaded = store.get("cell", unit.key)
            assert loaded is not None, f"missing cell {unit.key}"
            assert reference.exactly_equal(loaded), (
                f"distributed result differs from serial: {unit.key}"
            )
        if elastic:
            # Claims/spools orphaned by a mid-compute retirement SIGTERM
            # are not leaks — they age out by TTL.  Wait them out before
            # holding the clean-store line.
            reap_deadline = time.monotonic() + 4 * ELASTIC_TTL
            while store.claim_names() or store.backend.stray_spools():
                assert time.monotonic() < reap_deadline, (
                    f"orphans never aged out: claims="
                    f"{store.claim_names()} "
                    f"spools={store.backend.stray_spools()}"
                )
                time.sleep(0.2)
                store.reap_stale()
        leftover_claims = store.claim_names()
        stale = store.stale_claim_files()
        tmp_files = store.backend.stray_spools()
        assert not leftover_claims, f"leftover claims: {leftover_claims}"
        assert not stale, f"stale claims: {stale}"
        assert not tmp_files, f"torn spool files: {tmp_files}"

        codec_report = store.codec_report()
        effective_codec = (codec or default_store_codec()).lower()
        if effective_codec != "none":
            assert (codec_report["stored_bytes"]
                    <= 0.6 * codec_report["raw_bytes"]), (
                f"compressed store too large: {codec_report['stored_bytes']} "
                f"stored vs {codec_report['raw_bytes']} raw bytes"
            )

    leaked = set(glob.glob("/dev/shm/psm_*")) - shm_before
    assert not leaked, f"leaked shared-memory segments: {leaked}"
    return {
        "bench": "distributed_smoke",
        "grid": "table2",
        "n_cells": len(units),
        "n_workers": n_workers,
        "jobs_per_worker": jobs,
        "wall_seconds": wall,
        "bit_identical": True,
        "leaked_segments": 0,
        "stale_claims": 0,
        "store_codec": effective_codec,
        "payload_bytes_stored": codec_report["stored_bytes"],
        "payload_bytes_raw": codec_report["raw_bytes"],
        "payload_entries_by_codec": codec_report["by_codec"],
        **extra,
    }


# ----------------------------------------------------------------------
# pytest smoke
# ----------------------------------------------------------------------


def test_two_workers_share_one_store_bit_identically():
    record = run_smoke(n_workers=2)
    assert record["bit_identical"]
    assert record["n_cells"] == len(SMOKE.datasets) * 4


def test_two_workers_share_one_compressed_store_bit_identically():
    record = run_smoke(n_workers=2, codec="zlib")
    assert record["bit_identical"]
    assert record["store_codec"] == "zlib"
    # The record proves the footprint win.
    assert record["payload_bytes_stored"] <= 0.6 * record["payload_bytes_raw"]


def test_elastic_fleet_scales_up_and_converges_bit_identically():
    record = run_smoke(elastic=True)
    assert record["bit_identical"]
    assert record["scale_ups"] >= 1
    assert record["stale_claims"] == 0


# ----------------------------------------------------------------------
# script mode
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="multi-worker distributed store smoke (parity + leaks)"
    )
    parser.add_argument("--workers", type=int, default=2, metavar="N")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="fold-pool processes inside each worker")
    parser.add_argument("--timeout", type=float, default=600.0)
    parser.add_argument("--elastic", action="store_true",
                        help="autoscaled supervised fleet: start 1 worker, "
                             "gate on an observed scale-up, lru work "
                             "stealing, parity and a clean store")
    parser.add_argument("--store-codec", default=None, metavar="CODEC",
                        help="payload compression for the fleet "
                             "(zlib | lzma | none; default zlib)")
    args = parser.parse_args(argv)

    record = run_smoke(
        n_workers=args.workers, jobs=args.jobs, timeout=args.timeout,
        elastic=args.elastic, codec=args.store_codec,
    )
    elastic_note = ""
    if args.elastic:
        elastic_note = (
            f", elastic fleet scaled up {record['scale_ups']}x / "
            f"down {record['scale_downs']}x"
        )
    ratio = (record["payload_bytes_stored"]
             / max(1, record["payload_bytes_raw"]))
    print(
        f"distributed smoke OK: {record['n_cells']} "
        f"cells over {record['n_workers']} workers in "
        f"{record['wall_seconds']:.1f}s, bit-identical to serial, "
        f"no leaked segments, no stale claims, "
        f"{record['store_codec']} payloads at {ratio:.0%} of raw"
        f"{elastic_note}"
    )
    OUTPUT_DIR.mkdir(exist_ok=True)
    suffix = "_elastic" if args.elastic else ""
    if args.store_codec:
        # An explicit codec is its own CI scenario; keep its record
        # distinct from the default-codec run's.
        suffix += f"_{args.store_codec}"
    record_path = OUTPUT_DIR / f"distributed_smoke{suffix}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"[record saved to {record_path}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
