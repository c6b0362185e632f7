"""Fault injection for the distributed worker/claim protocol.

The contract under test: a worker SIGKILLed mid-cell leaves a claim whose
lease expires after the TTL, any other worker then reaps the lease and
recomputes the cell, and the final store is bit-identical to a serial run
with no duplicate, torn or leftover entries.  Claims are an efficiency
device — correctness never depends on them.

The SIGKILL scenarios and the torn-result heal run once per store kind
in ``STORE_BACKENDS`` (today the directory store: ``O_EXCL`` claims and
mtime leases): a crashed worker must be survivable wherever the store
lives, so a backend that joins that tuple inherits these scenarios.
"""

import os
import signal
import time

import pytest

from repro.experiments import dispatch, worker
from repro.experiments.config import ExperimentConfig
from repro.experiments.executor import ExperimentExecutor
from repro.experiments.store import CellStore

from tests.experiments.distributed_helpers import (
    STORE_BACKENDS,
    spawn_worker,
    store_target,
)

#: Cells sized to take a tangible fraction of a second each, so SIGKILL
#: reliably lands mid-computation (the claim poll below reacts within ms).
FAULT_CFG = ExperimentConfig(
    name="fault-tiny",
    size_factor=0.12,
    datasets=("S5", "S6"),
    n_splits=3,
    n_repeats=2,
    n_estimators=5,
)

TTL = 1.5

_SERIAL_CACHE: dict = {}


def plan(target):
    units = dispatch.plan_grid(FAULT_CFG, ["table2"])
    dispatch.write_manifest(target, FAULT_CFG, units)
    return units


def serial_results(units):
    if "value" not in _SERIAL_CACHE:
        _SERIAL_CACHE["value"] = ExperimentExecutor(
            FAULT_CFG, n_jobs=1, store=CellStore(None)
        ).run([u.spec for u in units])
    return _SERIAL_CACHE["value"]


def assert_store_matches_serial(target, units):
    """Final-state contract: complete, bit-identical, no torn/extra entries."""
    store = CellStore(target, lease_ttl=TTL)
    expected = serial_results(units)
    for unit, reference in zip(units, expected):
        loaded = store.get("cell", unit.key)
        assert loaded is not None, f"missing cell {unit.key}"
        assert reference.exactly_equal(loaded), f"parity broken for {unit.key}"
    # One entry per cell plus one per persisted SRS reference ratio — no
    # duplicates (content-keyed names make duplicates impossible, this
    # guards against accounting bugs) and nothing else left behind.
    cells = [p for p in store.disk_entries() if p.name.startswith("cell-")]
    ratios = [p for p in store.disk_entries() if p.name.startswith("ratio-")]
    assert len(cells) == len(units)
    assert len(ratios) == len(FAULT_CFG.datasets)
    assert store.claim_names() == []
    assert store.backend.stray_spools() == []


def kill_worker_mid_cell(target, victim):
    """Wait until ``victim`` claims its first cell, then SIGKILL it."""
    store = CellStore(target, lease_ttl=TTL)
    try:
        deadline = time.time() + 120
        while not store.claim_names():
            assert victim.poll() is None, (
                "worker exited before claiming:\n" + victim.stdout.read()
            )
            assert time.time() < deadline, "worker never claimed a cell"
            time.sleep(0.002)
        os.kill(victim.pid, signal.SIGKILL)
    finally:
        victim.wait()


@pytest.mark.parametrize("backend", STORE_BACKENDS)
def test_sigkill_mid_cell_lease_expires_and_peer_recovers(tmp_path, backend):
    target = store_target(backend, tmp_path)
    units = plan(target)
    victim = spawn_worker(
        target, "--ttl", str(TTL), "--poll", "0.05", "--claim-order", "sorted"
    )
    kill_worker_mid_cell(target, victim)
    assert victim.returncode == -signal.SIGKILL

    # The orphaned claim survives the kill: the lease was NOT released …
    store = CellStore(target, lease_ttl=TTL)
    orphaned = store.claim_names()
    assert orphaned, "SIGKILL should leave the in-flight claim behind"
    orphan_key = None
    for unit in units:
        if store.claim_name("cell", unit.key) in orphaned:
            orphan_key = unit.key
    assert orphan_key is not None
    # … and while the lease is fresh, peers must respect it.
    assert not store.try_claim("cell", orphan_key, "probe")

    # A second worker completes the grid: it waits out the lease, reaps
    # it and recomputes the orphaned cell (plus everything still pending).
    stats = worker.worker_loop(
        target, jobs=1, lease_ttl=TTL, poll=0.05, max_idle=120.0
    )
    assert not stats["idle_timeout"]
    assert stats["reaped_claims"] >= 1, "stale lease was never reaped"
    assert stats["computed"] >= 1
    assert_store_matches_serial(target, units)


@pytest.mark.parametrize("backend", STORE_BACKENDS)
def test_sigkilled_grid_remains_bit_identical_with_two_survivors(
    tmp_path, backend
):
    """Acceptance: parity holds when one worker of a fleet dies mid-grid."""
    target = store_target(backend, tmp_path)
    units = plan(target)
    victim = spawn_worker(
        target, "--ttl", str(TTL), "--poll", "0.05", "--claim-order", "sorted"
    )
    kill_worker_mid_cell(target, victim)

    survivors = [
        spawn_worker(target, "--ttl", str(TTL), "--poll", "0.05",
                     "--claim-order", order)
        for order in ("sorted", "reversed")
    ]
    for process in survivors:
        out, _ = process.communicate(timeout=300)
        assert process.returncode == 0, out
    assert_store_matches_serial(target, units)


def test_zero_byte_claim_does_not_deadlock_the_grid(tmp_path):
    """Regression: a claim file torn at birth (crash between O_EXCL create
    and payload write) must only delay its cell by one TTL."""
    units = plan(tmp_path)
    store = CellStore(tmp_path, lease_ttl=0.4)
    torn = store.claim_path("cell", units[0].key)
    torn.touch()
    assert torn.stat().st_size == 0
    stats = worker.worker_loop(
        tmp_path, jobs=1, lease_ttl=0.4, poll=0.05, max_idle=60.0
    )
    assert not stats["idle_timeout"]
    assert stats["computed"] == len(units)
    assert_store_matches_serial(str(tmp_path), units)


@pytest.mark.parametrize("backend", STORE_BACKENDS)
def test_torn_result_heals_and_recomputes(tmp_path, backend):
    """A partially-written or bit-rotted result entry is dropped and
    recomputed, never served."""
    target = store_target(backend, tmp_path)
    units = plan(target)
    stats = worker.worker_loop(target, jobs=1, lease_ttl=TTL, max_idle=60.0)
    assert stats["computed"] == len(units)
    store = CellStore(target, lease_ttl=TTL)
    # The worker pruned the consumed manifest on its way out.
    assert not [n for n in store.backend.list() if n.endswith(".plan")]
    store.backend.put_atomic(
        store._entry_name("cell", units[0].key), b"torn npz"
    )

    # A coordinator re-planning the same grid is idempotent; its workers
    # then find and heal the damage.
    dispatch.write_manifest(target, FAULT_CFG, units)
    heal_stats = worker.worker_loop(
        target, jobs=1, lease_ttl=TTL, max_idle=60.0
    )
    assert heal_stats["computed"] == 1  # only the damaged cell reruns
    assert_store_matches_serial(target, units)
