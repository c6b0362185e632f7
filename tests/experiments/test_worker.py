"""Unit tests for the worker loop's plumbing (the fault-injection and
parity suites cover its end-to-end behaviour)."""

import time

import pytest

from repro.experiments import worker
from repro.experiments.runner import get_store


class TestClaimOrder:
    def test_sorted_and_reversed(self):
        class U:
            def __init__(self, key):
                self.key = key

        units = [U("b"), U("a"), U("c")]
        ordered = worker.claim_order_from("sorted")(units)
        assert [u.key for u in ordered] == ["a", "b", "c"]
        ordered = worker.claim_order_from("reversed")(units)
        assert [u.key for u in ordered] == ["c", "b", "a"]

    def test_rotate(self):
        class U:
            def __init__(self, key):
                self.key = key

        units = [U("a"), U("b"), U("c")]
        ordered = worker.claim_order_from("rotate:1")(units)
        assert [u.key for u in ordered] == ["b", "c", "a"]
        # Rotation wraps, so any N is valid for any fleet size.
        ordered = worker.claim_order_from("rotate:7")(units)
        assert [u.key for u in ordered] == ["b", "c", "a"]
        assert worker.claim_order_from("rotate:0")([]) == []

    def test_unknown_order_rejected(self):
        for spec in ("random", "bogus", "rotate:x", "rotate:"):
            with pytest.raises(ValueError, match="claim order") as info:
                worker.claim_order_from(spec)
            for form in ("sorted", "reversed", "rotate:N", "lru"):
                assert form in str(info.value)

    def test_cli_bad_order_is_a_usage_error(self, tmp_path, capsys):
        """Exit 2, which the fleet supervisor never restarts, not a
        traceback (exit 1, restarted with backoff up to max_restarts)."""
        for spec in ("bogus", "rotate:x"):
            with pytest.raises(SystemExit) as info:
                worker.main(["--store", str(tmp_path), "--claim-order", spec])
            assert info.value.code == 2
            assert "lru" in capsys.readouterr().err

    def test_lru_starts_sorted_then_backs_off_attempted(self):
        class U:
            def __init__(self, key):
                self.key = key

        units = [U("b"), U("a"), U("c")]
        order = worker.claim_order_from("lru")
        assert [u.key for u in order(units)] == ["a", "b", "c"]
        # A conflicted (peer-held) cell drops to the back...
        order.note("a")
        assert [u.key for u in order(units)] == ["b", "c", "a"]
        # ...and drifts forward again as later attempts pass it.
        order.note("b")
        order.note("c")
        assert [u.key for u in order(units)] == ["a", "b", "c"]

    def test_lru_instances_are_independent(self):
        first = worker.claim_order_from("lru")
        second = worker.claim_order_from("lru")
        first.note("a")

        class U:
            def __init__(self, key):
                self.key = key

        units = [U("a"), U("b")]
        assert [u.key for u in first(units)] == ["b", "a"]
        assert [u.key for u in second(units)] == ["a", "b"]


class TestWorkerLoop:
    def test_waits_for_a_manifest_then_times_out(self, tmp_path):
        """An empty store is not a completed grid: the worker waits for a
        coordinator's plan and only gives up after max_idle."""
        start = time.monotonic()
        stats = worker.worker_loop(tmp_path, jobs=1, poll=0.02, max_idle=0.2)
        assert stats["computed"] == 0
        assert stats["idle_timeout"]
        assert time.monotonic() - start >= 0.2

    def test_picks_up_a_manifest_written_after_startup(self, tmp_path):
        """The multi-node flow: workers start first, the coordinator
        plans later; the worker must pick the late manifest up."""
        import threading

        from repro.experiments import dispatch
        from tests.property.test_distributed_parity import TINY

        units = dispatch.plan_grid(TINY, ["table2"])[:2]

        def late_plan():
            time.sleep(0.3)
            dispatch.write_manifest(tmp_path, TINY, units)

        coordinator = threading.Thread(target=late_plan)
        coordinator.start()
        try:
            stats = worker.worker_loop(
                tmp_path, jobs=1, poll=0.05, max_idle=60.0
            )
        finally:
            coordinator.join()
        assert not stats["idle_timeout"]
        assert stats["computed"] == len(units)

    def test_prunes_manifest_on_completion(self, tmp_path):
        """A finished grid's manifest must not linger (later workers
        would adopt it as their exit condition)."""
        from repro.experiments import dispatch
        from tests.property.test_distributed_parity import TINY

        units = dispatch.plan_grid(TINY, ["table2"])[:2]
        dispatch.write_manifest(tmp_path, TINY, units)
        stats = worker.worker_loop(tmp_path, jobs=1, max_idle=60.0)
        assert stats["computed"] == len(units)
        assert not list(tmp_path.glob("plan-*.plan"))

    def test_vanished_plan_after_work_means_grid_done(self, tmp_path):
        """A peer pruning the manifest (grid complete) must read as a
        clean exit, not as an idle timeout."""
        import threading

        from repro.experiments import dispatch
        from repro.experiments.store import CellStore
        from tests.property.test_distributed_parity import TINY

        units = dispatch.plan_grid(TINY, ["table2"])[:2]
        path = dispatch.write_manifest(tmp_path, TINY, units)
        store = CellStore(tmp_path)
        store.try_claim("cell", units[0].key, "peer")
        store.try_claim("cell", units[1].key, "peer")

        def peer_finishes():
            time.sleep(0.3)
            path.unlink()  # what a peer's prune_manifests would do

        peer = threading.Thread(target=peer_finishes)
        peer.start()
        try:
            stats = worker.worker_loop(
                tmp_path, jobs=1, poll=0.05, max_idle=60.0
            )
        finally:
            peer.join()
        assert stats["computed"] == 0
        assert not stats["idle_timeout"]

    def test_spawned_worker_after_pruned_grid_exits_at_once(self, tmp_path):
        """A worker spawned after its manifest was written, but first
        looking once its peers finished and pruned the grid (a fleet's
        late joiner), exits 0 at once instead of idling out max_idle."""
        from repro.experiments import dispatch
        from tests.property.test_distributed_parity import TINY

        units = dispatch.plan_grid(TINY, ["table2"])[:2]
        dispatch.write_manifest(tmp_path, TINY, units)
        assert worker.worker_loop(tmp_path, jobs=1, max_idle=60.0)["computed"] == 2
        start = time.monotonic()
        assert worker.main(
            ["--store", str(tmp_path), "--max-idle", "60", "--plan-written"]
        ) == 0
        assert time.monotonic() - start < 2.0

    def test_prestarted_worker_waits_past_an_earlier_finished_grid(self, tmp_path):
        """Pre-starting workers on a store that already finished a grid
        (table2, then table4 into one store) must still wait for the next
        coordinator's manifest rather than exit on the old grid."""
        import threading

        from repro.experiments import dispatch
        from tests.property.test_distributed_parity import TINY

        units = dispatch.plan_grid(TINY, ["table2"])
        dispatch.write_manifest(tmp_path, TINY, units[:2])
        assert worker.worker_loop(tmp_path, jobs=1, max_idle=60.0)["computed"] == 2

        def next_plan():
            time.sleep(0.3)
            dispatch.write_manifest(tmp_path, TINY, units[2:4])

        coordinator = threading.Thread(target=next_plan)
        coordinator.start()
        try:
            stats = worker.worker_loop(
                tmp_path, jobs=1, poll=0.05, max_idle=60.0
            )
        finally:
            coordinator.join(timeout=30)
        assert not coordinator.is_alive()
        assert not stats["idle_timeout"]
        assert stats["computed"] == 2

    def test_process_store_restored_after_loop(self, tmp_path):
        before = get_store()
        worker.worker_loop(tmp_path, jobs=1, poll=0.02, max_idle=0.1)
        assert get_store() is before

    def test_cli_exits_three_when_no_plan_ever_appears(self, tmp_path, capsys):
        assert worker.main(
            ["--store", str(tmp_path), "--poll", "0.02", "--max-idle", "0.2"]
        ) == 3
        out = capsys.readouterr().out
        assert '"computed": 0' in out and '"idle_timeout": true' in out

    def test_cli_store_url_is_an_alias_accepting_urls(self, tmp_path, capsys):
        """--store-url and --store are one flag; both take store URLs."""
        assert worker.main(
            ["--store-url", f"file://{tmp_path}/store",
             "--poll", "0.02", "--max-idle", "0.2"]
        ) == 3
        assert '"idle_timeout": true' in capsys.readouterr().out

    def test_worker_loop_over_a_file_url(self, tmp_path):
        """The loop accepts URL targets end-to-end (not just directories)."""
        from repro.experiments import dispatch
        from tests.property.test_distributed_parity import TINY

        target = f"file://{tmp_path}/store"
        units = dispatch.plan_grid(TINY, ["table2"])[:1]
        dispatch.write_manifest(target, TINY, units)
        stats = worker.worker_loop(target, jobs=1, max_idle=60.0)
        assert stats["computed"] == 1

    def test_explicit_empty_unit_list_is_a_noop(self, tmp_path):
        stats = worker.worker_loop(tmp_path, jobs=1, units=[], max_idle=0.1)
        assert stats["computed"] == 0
        assert not stats["idle_timeout"]

    def test_owner_identity_is_host_qualified_and_per_process(self):
        import os
        import socket

        assert worker.default_owner().endswith(f":{os.getpid()}")
        assert socket.gethostname() in worker.default_owner()
