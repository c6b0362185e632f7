"""Property: distributed grid execution over a shared CellStore is
bit-identical to serial execution for any worker count and any claim
interleaving.

Mirrors ``test_scheduler_parity.py`` one level up the stack: that suite
pins the in-process pooled scheduler, this one pins the multi-process
claim/lease path — real worker processes splitting a Table-II subgrid
through one shared store, plus an in-process sweep of the deterministic
claim-order seam.  Every test runs once per store kind in
``STORE_BACKENDS`` (today the directory store: ``O_EXCL`` claims, mtime
leases), so a backend that joins that tuple inherits the whole suite.
"""

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

TINY = ExperimentConfig(
    name="tiny-dist",
    size_factor=0.05,
    datasets=("S2", "S5"),
    n_splits=2,
    n_repeats=2,
    n_estimators=3,
)

_SERIAL_CACHE: dict = {}


def units_and_serial():
    """The Table-II subgrid units plus the serial reference results."""
    if "value" not in _SERIAL_CACHE:
        units = dispatch.plan_grid(TINY, ["table2"])
        serial = ExperimentExecutor(TINY, n_jobs=1, store=CellStore(None)).run(
            [u.spec for u in units]
        )
        _SERIAL_CACHE["value"] = (units, serial)
    return _SERIAL_CACHE["value"]


def assert_store_bit_identical(target, units, serial):
    store = CellStore(target)
    for unit, reference in zip(units, serial):
        loaded = store.get("cell", unit.key)
        assert loaded is not None, f"missing {unit.key}"
        assert reference.exactly_equal(loaded), f"parity broken: {unit.key}"
    assert store.claim_names() == []


@pytest.mark.parametrize("backend", STORE_BACKENDS)
@pytest.mark.parametrize("n_workers", [1, 2, 3])
def test_worker_fleet_matches_serial(tmp_path, n_workers, backend):
    """1, 2 and 3 concurrent worker processes over one shared store all
    produce float-for-float the serial results."""
    units, serial = units_and_serial()
    target = store_target(backend, tmp_path)
    dispatch.write_manifest(target, TINY, units)
    # Distinct claim orders maximise interleaving: workers start at
    # different grid offsets and meet in the middle.  Like run_all's
    # spawner, pass --plan-written: a worker still importing when its
    # peers finish and prune the grid must exit 0, not idle out.
    fleet = [
        spawn_worker(target, "--poll", "0.05", "--plan-written",
                     "--claim-order", f"rotate:{i * (len(units) // n_workers)}")
        for i in range(n_workers)
    ]
    for process in fleet:
        out, _ = process.communicate(timeout=300)
        assert process.returncode == 0, out
    assert_store_bit_identical(target, units, serial)


@pytest.mark.parametrize("backend", STORE_BACKENDS)
@pytest.mark.parametrize("order", ["sorted", "reversed", "rotate:1", "rotate:5"])
def test_any_claim_interleaving_matches_serial(tmp_path, order, backend):
    """The claim-order seam (which permutes the order cells are claimed
    and computed in) must never influence any cell's bytes."""
    units, serial = units_and_serial()
    target = store_target(backend, tmp_path)
    dispatch.write_manifest(target, TINY, units)
    stats = worker.worker_loop(
        target,
        jobs=1,
        claim_order=worker.claim_order_from(order),
        max_idle=60.0,
    )
    assert stats["computed"] == len(units)
    assert_store_bit_identical(target, units, serial)


@pytest.mark.parametrize("backend", STORE_BACKENDS)
def test_interrupted_grid_resumes_without_recomputation(tmp_path, backend):
    """A worker joining a half-finished grid computes only the remainder
    (the store is the checkpoint), and parity still holds."""
    units, serial = units_and_serial()
    target = store_target(backend, tmp_path)
    dispatch.write_manifest(target, TINY, units)
    store = CellStore(target)
    half = len(units) // 2
    for unit, reference in zip(units[:half], serial[:half]):
        store.put("cell", unit.key, reference)

    stats = worker.worker_loop(target, jobs=1, max_idle=60.0)
    assert stats["computed"] == len(units) - half
    assert_store_bit_identical(target, units, serial)


@pytest.mark.parametrize("backend", STORE_BACKENDS)
def test_pooled_worker_matches_serial(tmp_path, backend):
    """--jobs > 1 inside a worker (folds fanned over its local pool)
    composes with the distributed layer without breaking parity."""
    units, serial = units_and_serial()
    target = store_target(backend, tmp_path)
    dispatch.write_manifest(target, TINY, units)
    stats = worker.worker_loop(target, jobs=2, max_idle=120.0)
    assert stats["computed"] == len(units)
    assert_store_bit_identical(target, units, serial)

