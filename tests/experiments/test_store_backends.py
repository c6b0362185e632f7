"""Conformance suite for the store backend contract.

The invariants the distributed claim/lease protocol depends on (atomic
visibility, exactly-one-winner exclusive creation, monotonic heartbeat
timestamps, idempotent deletes, spool-free listings) are pinned at the
*backend* level by the :class:`BackendContract` mixin, not just observed
incidentally through worker runs.  ``LocalFSBackend`` is the one backend;
any other backend has to pass the same mixin to join it.

On top of the raw contract, the ``CellStore``-level classes pin the
protocol with an injected clock (stale leases reap without sleeping,
corrupt entries self-heal by deletion) and the polling cost budgets of
the landed-set cache.
"""

import os
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.backends import LocalFSBackend, resolve_backend
from repro.experiments.store import CellStore

from tests.experiments.distributed_helpers import STORE_BACKENDS, store_target
from tests.experiments.test_store import make_result


class FakeClock:
    """Manually advanced time source for a store's lease ageing."""

    def __init__(self, start: float):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# The backend contract
# ----------------------------------------------------------------------


class BackendContract:
    """Invariants every store backend must uphold (see backends.py)."""

    def make_backend(self, tmp_path):
        raise NotImplementedError

    @pytest.fixture
    def backend(self, tmp_path):
        return self.make_backend(tmp_path)

    def test_get_missing_returns_none(self, backend):
        assert backend.get("absent.json") is None
        assert backend.mtime("absent.json") is None
        assert not backend.exists("absent.json")

    def test_put_get_round_trip(self, backend):
        backend.put_atomic("cell-1.npz", b"\x00binary\xffpayload")
        assert backend.get("cell-1.npz") == b"\x00binary\xffpayload"
        assert backend.exists("cell-1.npz")

    def test_put_atomic_overwrites(self, backend):
        backend.put_atomic("a.json", b"old")
        backend.put_atomic("a.json", b"new")
        assert backend.get("a.json") == b"new"

    def test_delete_is_idempotent(self, backend):
        backend.put_atomic("a.json", b"x")
        backend.delete("a.json")
        assert backend.get("a.json") is None
        backend.delete("a.json")  # second delete must not raise

    def test_list_is_sorted_and_complete(self, backend):
        for name in ("b.json", "a.npz", "c.claim"):
            backend.put_atomic(name, b"x")
        assert backend.list() == ["a.npz", "b.json", "c.claim"]

    def test_list_prefix_filters_server_side(self, backend):
        for name in ("plan-1.plan", "plan-2.plan", "cell-1.npz"):
            backend.put_atomic(name, b"x")
        assert backend.list(prefix="plan-") == ["plan-1.plan", "plan-2.plan"]
        assert backend.list(prefix="nope-") == []

    def test_list_excludes_spool_artifacts(self, backend):
        """Invariant 5: readers never observe in-flight writes."""
        for _ in range(5):
            backend.put_atomic("a.json", b"x" * 64)
        names = backend.list()
        assert names == ["a.json"]

    def test_exclusive_create_single_winner(self, backend):
        assert backend.try_claim_exclusive("k.claim", b"alice")
        assert not backend.try_claim_exclusive("k.claim", b"bob")
        assert backend.get("k.claim") == b"alice"  # loser did not stomp

    def test_exclusive_create_after_delete_succeeds(self, backend):
        backend.try_claim_exclusive("k.claim", b"alice")
        backend.delete("k.claim")
        assert backend.try_claim_exclusive("k.claim", b"bob")
        assert backend.get("k.claim") == b"bob"

    def test_exclusive_create_threaded_race_one_winner(self, backend):
        """Invariant 2 under a real interleaving: N threads, one winner."""
        wins = []
        barrier = threading.Barrier(8)

        def contender(i):
            barrier.wait()
            if backend.try_claim_exclusive("race.claim", f"t{i}".encode()):
                wins.append(i)

        threads = [threading.Thread(target=contender, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1
        assert backend.get("race.claim") == f"t{wins[0]}".encode()

    def test_stamp_mtime_advances_timestamp(self, backend):
        backend.try_claim_exclusive("k.claim", b"v1")
        first = backend.mtime("k.claim")
        time.sleep(0.02)  # one filesystem-timestamp granule
        backend.stamp_mtime("k.claim", b"v2")
        assert backend.get("k.claim") == b"v2"
        assert backend.mtime("k.claim") > first

    def test_url_round_trips_to_same_storage(self, backend):
        backend.put_atomic("a.json", b"payload")
        again = resolve_backend(backend.url)
        assert again.get("a.json") == b"payload"


class TestLocalFSContract(BackendContract):
    def make_backend(self, tmp_path):
        return LocalFSBackend(tmp_path / "store")

    def test_orphaned_spool_is_hidden_from_list_but_sweepable(self, backend):
        """Invariant 5 regression: a stranded mkstemp spool (writer
        SIGKILLed mid-put) must not appear as an entry, yet must stay
        reachable for the stale-reap path."""
        backend.put_atomic("cell-1.npz", b"data")
        (backend.root / "cell-1abcd123.tmp").write_bytes(b"partial")
        assert backend.list() == ["cell-1.npz"]
        assert backend.stray_spools() == ["cell-1abcd123.tmp"]
        assert backend.mtime("cell-1abcd123.tmp") is not None
        backend.delete("cell-1abcd123.tmp")
        assert backend.stray_spools() == []


#: A RAM-backed filesystem (tmpfs), where the host has one.
RAM_FS = "/dev/shm" if os.path.isdir("/dev/shm") else None


class TestMemoryBucketContract(BackendContract):
    """The same contract on a RAM-backed filesystem, where one host's
    fleet can keep a fast store: tmpfs brings its own rename, ``O_EXCL``
    and mtime code.  (The name dates from an in-memory bucket backend.)"""

    @pytest.fixture
    def backend(self):
        with tempfile.TemporaryDirectory(dir=RAM_FS) as root:
            yield LocalFSBackend(Path(root) / "store")


# ----------------------------------------------------------------------
# URL resolution
# ----------------------------------------------------------------------


class TestResolveBackend:
    def test_none_is_memory_only(self):
        assert resolve_backend(None) is None

    def test_plain_path_and_file_url_are_local(self, tmp_path):
        a = resolve_backend(tmp_path)
        b = resolve_backend(f"file://{tmp_path}")
        assert isinstance(a, LocalFSBackend) and isinstance(b, LocalFSBackend)
        assert a.root == b.root == tmp_path

    def test_backend_instance_passes_through(self, tmp_path):
        backend = LocalFSBackend(tmp_path)
        assert resolve_backend(backend) is backend

    def test_unknown_scheme_rejected(self):
        for url in ("gopher://cellstore", "mem://x", "fakes3:///x", "s3://b/p"):
            with pytest.raises(ValueError, match="scheme"):
                resolve_backend(url)

    def test_cellstore_dir_env_accepts_urls(self, tmp_path, monkeypatch):
        from repro.experiments.store import default_store_root

        monkeypatch.setenv("REPRO_CELLSTORE_DIR", f"file://{tmp_path}/b")
        target = default_store_root()
        store = CellStore(target)
        assert store.url == f"file://{tmp_path}/b"
        store.put("ratio", "k", 0.25)
        assert CellStore(target).get("ratio", "k") == 0.25


# ----------------------------------------------------------------------
# CellStore over every store kind: same protocol, same outcomes
# ----------------------------------------------------------------------


@pytest.fixture(params=STORE_BACKENDS)
def clocked_store(request, tmp_path):
    # Based at real time: file mtimes come from the kernel clock, so the
    # injected clock must share its epoch (advancing it simulates the
    # passage of time against freshly written entries).
    clock = FakeClock(start=time.time())
    target = store_target(request.param, tmp_path / "store")
    store = CellStore(target, clock=clock, lease_ttl=10.0)
    store.test_clock = clock
    return store


class TestCellStoreOverBackends:
    def test_cell_round_trip_bit_identical(self, clocked_store):
        original = make_result(7)
        clocked_store.put("cell", "k", original)
        clocked_store.clear_memory()
        loaded = clocked_store.get("cell", "k")
        assert loaded is not original
        for name in original.metric_values:
            np.testing.assert_array_equal(
                loaded.metric_values[name], original.metric_values[name]
            )

    def test_claims_are_exclusive(self, clocked_store):
        assert clocked_store.try_claim("cell", "k", "alice")
        assert not clocked_store.try_claim("cell", "k", "bob")
        clocked_store.release_claim("cell", "k", "alice")
        assert clocked_store.try_claim("cell", "k", "bob")

    def test_stale_lease_reaped_via_injected_clock(self, clocked_store):
        """Lease expiry needs no sleeping: advance the store clock past
        the TTL and the next claimer reaps."""
        assert clocked_store.try_claim("cell", "k", "alice")
        clocked_store.test_clock.advance(9.0)
        assert not clocked_store.try_claim("cell", "k", "bob")  # still live
        clocked_store.test_clock.advance(2.0)  # 11s > ttl=10s
        assert clocked_store.stale_claim_files() != []
        assert clocked_store.try_claim("cell", "k", "bob")
        assert clocked_store.claim_info("cell", "k")["owner"] == "bob"
        assert clocked_store.stats["reaped_claims"] == 1

    def test_filter_missing_matches_per_key_has(self, clocked_store):
        """The batched pending probe must agree with the per-key probe on
        every membership combination."""
        clocked_store.put("cell", "landed-disk", make_result())
        clocked_store.clear_memory()
        clocked_store.put("cell", "landed-memory", make_result(),
                          persist=False)
        keys = ["landed-disk", "landed-memory", "missing-a", "missing-b"]
        assert clocked_store.filter_missing("cell", keys) == [
            "missing-a", "missing-b"
        ]
        for key in keys:
            assert (key not in clocked_store.filter_missing("cell", [key])) \
                == clocked_store.has("cell", key)

    def test_corrupt_entry_self_heals(self, clocked_store):
        clocked_store.put("cell", "k", make_result())
        clocked_store.clear_memory()
        name = clocked_store._entry_name("cell", "k")
        clocked_store.backend.put_atomic(name, b"torn garbage")
        assert clocked_store.has("cell", "k")  # stat probe is optimistic
        assert clocked_store.get("cell", "k") is None  # decode heals
        assert not clocked_store.backend.exists(name)

    def test_release_respects_new_owner(self, clocked_store):
        clocked_store.try_claim("cell", "k", "alice")
        clocked_store.test_clock.advance(11.0)
        assert clocked_store.try_claim("cell", "k", "bob")
        clocked_store.release_claim("cell", "k", "alice")  # lost her lease
        assert clocked_store.claim_info("cell", "k")["owner"] == "bob"


class CountingBackend(LocalFSBackend):
    """``LocalFSBackend`` counting its storage calls, so tests can assert
    what a polling loop *costs*, not just its answers."""

    def __init__(self, root):
        super().__init__(root)
        self.calls = Counter()

    def get(self, name):
        self.calls["get"] += 1
        return super().get(name)

    def exists(self, name):
        self.calls["exists"] += 1
        return super().exists(name)

    def list(self, prefix=""):
        self.calls["list"] += 1
        return super().list(prefix)

    def mtime(self, name):
        self.calls["mtime"] += 1
        return super().mtime(name)


class TestBoundedPolling:
    """Steady-state polling calls must not scale with store size.

    The regression behind the delta cache: every ``filter_missing`` poll
    used to list the whole ``{kind}-`` prefix, so polling cost grew with
    every landed cell.  With the cache, landed keys are free and the few
    pending ones pay one ``exists`` probe each.
    """

    def make_store(self, tmp_path):
        backend = CountingBackend(tmp_path / "store")
        return backend, CellStore(backend)

    def test_pending_scan_cost_is_per_pending_not_per_landed(self, tmp_path):
        backend, store = self.make_store(tmp_path)
        for i in range(40):
            store.put("ratio", f"k{i}", float(i))
        pending = [f"p{i}" for i in range(3)]

        # A fresh process (empty memory layer, empty cache) queries the
        # whole grid: one listing reseeds the landed cache.
        fresh = CellStore(backend)
        keys = [f"k{i}" for i in range(40)] + pending
        assert fresh.filter_missing("ratio", keys) == pending

        backend.calls.clear()
        for _ in range(5):
            assert fresh.filter_missing("ratio", keys) == pending
        # Landed cells answer from the cache; only the 3 pending keys pay
        # a probe per poll — and nothing lists the store again.
        assert backend.calls == Counter(exists=5 * len(pending))

    def test_landing_more_cells_does_not_raise_poll_cost(self, tmp_path):
        backend, store = self.make_store(tmp_path)
        pending = [f"p{i}" for i in range(3)]
        poller = CellStore(backend)

        def poll_cost(landed: int) -> int:
            for i in range(landed):
                store.put("ratio", f"k{i}", float(i))
            keys = [f"k{i}" for i in range(landed)] + pending
            poller.filter_missing("ratio", keys)  # warm the cache
            backend.calls.clear()
            poller.filter_missing("ratio", keys)
            return sum(backend.calls.values())

        assert poll_cost(10) == poll_cost(80)

    def test_put_feeds_the_cache(self, tmp_path):
        """A worker's own writes are known landed without any call."""
        backend, store = self.make_store(tmp_path)
        store.put("ratio", "mine", 1.0)
        store.clear_memory()
        backend.calls.clear()
        assert store.filter_missing("ratio", ["mine"]) == []
        assert sum(backend.calls.values()) == 0

    def test_healed_entry_leaves_the_cache(self, tmp_path):
        """Heal-on-decode must evict, or the poller would report the cell
        landed forever while verify keeps failing (a pending livelock)."""
        backend, store = self.make_store(tmp_path)
        store.put("ratio", "k", 0.5)
        store.clear_memory()
        name = store._entry_name("ratio", "k")
        backend.put_atomic(name, b"\xabRS1\x00\x04zlibgarbage")
        assert store.get("ratio", "k") is None  # healed by deletion
        assert store.filter_missing("ratio", ["k"]) == ["k"]
