"""How a worker fleet rides out crashes and store blips.

What ``test_worker_faults.py`` proves for a bare fleet (SIGKILL mid-cell →
the lease expires, a peer recomputes, parity holds), this suite proves
for the machinery that keeps a fleet going without an operator:

* the shared :class:`~repro.backoff.BackoffPolicy` (deterministic with an
  injected RNG — the fleet supervisor and the serving client consume the
  same policy);
* :class:`~repro.experiments.store.ClaimHeartbeat` surviving refresh
  errors: a store blip must not silently expire a live lease, and the
  lease is re-stamped once writes succeed again;
* the :class:`~repro.experiments.dispatch.FleetSupervisor` restart
  policy: crashes restart with backoff up to a cap, done/idle exits and
  usage errors (an unusable ``--store`` among them) never restart;
* end to end: a supervisor restarting a SIGKILLed worker mid-grid while
  parity holds.
"""

import os
import random
import signal
import sys
import time

from repro.backoff import BackoffPolicy
from repro.experiments import dispatch
from repro.experiments.backends import LocalFSBackend
from repro.experiments.store import CellStore, ClaimHeartbeat

from tests.experiments.distributed_helpers import worker_env
from tests.experiments.test_worker_faults import (
    TTL,
    assert_store_matches_serial,
    plan,
)


# ----------------------------------------------------------------------
# The shared backoff policy
# ----------------------------------------------------------------------


class TestBackoffPolicy:
    def test_deterministic_with_injected_rng(self):
        a = BackoffPolicy(rng=random.Random(42))
        b = BackoffPolicy(rng=random.Random(42))
        assert [a.delay(i) for i in range(6)] == [b.delay(i) for i in range(6)]

    def test_doubles_then_caps(self):
        policy = BackoffPolicy(base=0.1, factor=2.0, cap=0.5,
                               jitter=(1.0, 1.0))
        assert [policy.delay(i) for i in range(5)] == [
            0.1, 0.2, 0.4, 0.5, 0.5
        ]

    def test_floor_raises_delay_but_never_past_cap(self):
        policy = BackoffPolicy(base=0.05, cap=1.0, jitter=(1.0, 1.0))
        assert policy.delay(0, floor=0.7) == 0.7   # Retry-After honoured
        assert policy.delay(0, floor=30.0) == 1.0  # but capped
        assert policy.delay(5, floor=0.1) == 1.0   # growth past the floor

    def test_jitter_stays_in_bounds(self):
        policy = BackoffPolicy(base=0.2, cap=0.2, jitter=(0.5, 1.5),
                               rng=random.Random(0))
        for attempt in range(50):
            assert 0.1 <= policy.delay(attempt) < 0.3


# ----------------------------------------------------------------------
# Heartbeats through refresh errors
# ----------------------------------------------------------------------


class FlakyRefreshStore:
    """CellStore stand-in scripting ``refresh_claim`` outcomes."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)  # exceptions, True, or False
        self.calls = 0

    def refresh_claim(self, kind, key, owner):
        self.calls += 1
        outcome = self.outcomes.pop(0) if self.outcomes else True
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome


class FlakyStampBackend(LocalFSBackend):
    """Heartbeat writes fail with ``OSError`` while ``failing`` is set."""

    failing = False

    def stamp_mtime(self, name, data):
        if self.failing:
            raise OSError(5, "injected refresh failure")
        super().stamp_mtime(name, data)


def run_heartbeat(store, duration=0.5):
    beat = ClaimHeartbeat(store, "cell", "k", "me", interval=0.02)
    with beat:
        time.sleep(duration)
    return beat


class TestClaimHeartbeat:
    """A refresh error must not silently expire a live lease."""

    def test_refresh_errors_do_not_kill_the_heartbeat(self):
        store = FlakyRefreshStore([ConnectionError("blip")] * 3)
        beat = run_heartbeat(store, duration=0.4)
        assert beat.refresh_errors == 3
        assert not beat.lost
        assert store.calls > 3, "heartbeat must keep refreshing after blips"

    def test_lost_lease_still_detected(self):
        store = FlakyRefreshStore([True, False])
        beat = run_heartbeat(store, duration=0.2)
        assert beat.lost

    def test_live_lease_restamped_after_real_outage(self, tmp_path):
        """End-to-end over a real directory: failing refreshes must
        neither kill the heartbeat nor silently expire the live lease —
        the lease is re-stamped the moment writes succeed again."""
        backend = FlakyStampBackend(tmp_path)
        store = CellStore(backend, lease_ttl=30.0)
        assert store.try_claim("cell", "k1", "me")
        claim = store.claim_name("cell", "k1")
        with ClaimHeartbeat(store, "cell", "k1", "me", interval=0.05) as beat:
            time.sleep(0.12)
            backend.failing = True
            time.sleep(0.3)
            backend.failing = False
            recovered_at = time.time()
            time.sleep(0.3)
        assert beat.refresh_errors >= 1
        assert not beat.lost
        assert backend.mtime(claim) >= recovered_at - 0.25
        # The lease is still exclusively ours.
        assert not store.try_claim("cell", "k1", "intruder")


# ----------------------------------------------------------------------
# The fleet supervisor
# ----------------------------------------------------------------------


def crash_once_command(flag_path, crash_code=17):
    """argv for a process that crashes on first run, succeeds after."""
    script = (
        "import os, sys\n"
        f"flag = {str(flag_path)!r}\n"
        "if not os.path.exists(flag):\n"
        "    open(flag, 'w').close()\n"
        f"    sys.exit({crash_code})\n"
        "sys.exit(0)\n"
    )
    return [sys.executable, "-c", script]


def drive_to_completion(supervisor, timeout=30.0):
    deadline = time.monotonic() + timeout
    supervisor.poll()
    while not supervisor.fleet_dead():
        assert time.monotonic() < deadline, "fleet never settled"
        time.sleep(0.02)
        supervisor.poll()


FAST_RESTARTS = BackoffPolicy(base=0.05, cap=0.1, jitter=(1.0, 1.0))


class TestFleetSupervisor:
    def test_crashed_worker_is_restarted_with_original_command(self, tmp_path):
        supervisor = dispatch.FleetSupervisor(
            [crash_once_command(tmp_path / "flag")],
            max_restarts=2, backoff=FAST_RESTARTS,
        )
        supervisor.start()
        drive_to_completion(supervisor)
        (entry,) = supervisor.summary()
        assert entry["restarts"] == 1
        assert entry["exit_codes"] == [17, 0]
        assert not entry["gave_up"]

    def test_max_restarts_caps_a_crash_loop(self):
        always_crash = [sys.executable, "-c", "import sys; sys.exit(9)"]
        supervisor = dispatch.FleetSupervisor(
            [always_crash], max_restarts=2, backoff=FAST_RESTARTS,
        )
        supervisor.start()
        drive_to_completion(supervisor)
        (entry,) = supervisor.summary()
        assert entry["restarts"] == 2
        assert entry["exit_codes"] == [9, 9, 9]
        assert entry["gave_up"]

    def test_permanent_store_exit_is_never_restarted(self):
        """A worker whose --store can never work exits 2 (a usage error):
        restarting it would fail the same way, so the slot is given up."""
        unusable = [sys.executable, "-m", "repro.experiments.worker",
                    "--store", "gopher://nowhere"]
        supervisor = dispatch.FleetSupervisor(
            [unusable], max_restarts=5, backoff=FAST_RESTARTS,
            env=worker_env(),
        )
        supervisor.start()
        drive_to_completion(supervisor)
        (entry,) = supervisor.summary()
        assert entry["restarts"] == 0
        assert entry["exit_codes"] == [2]
        assert entry["gave_up"]

    def test_benign_exits_are_not_restarted(self):
        done = [sys.executable, "-c", "import sys; sys.exit(0)"]
        idle = [sys.executable, "-c", "import sys; sys.exit(3)"]
        supervisor = dispatch.FleetSupervisor(
            [done, idle], max_restarts=5, backoff=FAST_RESTARTS,
        )
        supervisor.start()
        drive_to_completion(supervisor)
        first, second = supervisor.summary()
        assert first["exit_codes"] == [0] and first["restarts"] == 0
        assert second["exit_codes"] == [3] and second["restarts"] == 0
        assert not first["gave_up"] and not second["gave_up"]

    def test_terminate_cancels_pending_restarts(self):
        crash = [sys.executable, "-c", "import sys; sys.exit(9)"]
        supervisor = dispatch.FleetSupervisor(
            [crash], max_restarts=5,
            backoff=BackoffPolicy(base=30.0, cap=30.0, jitter=(1.0, 1.0)),
        )
        supervisor.start()
        deadline = time.monotonic() + 10.0
        while supervisor.total_restarts() == 0:
            supervisor.poll()
            (entry,) = supervisor.summary()
            if entry["exit_codes"]:
                break  # crash observed, restart scheduled 30s out
            assert time.monotonic() < deadline
            time.sleep(0.02)
        supervisor.terminate()
        assert supervisor.fleet_dead()
        assert supervisor.total_restarts() == 0


# ----------------------------------------------------------------------
# End to end: a supervised fleet under SIGKILL
# ----------------------------------------------------------------------


class TestChaosEndToEnd:
    def test_supervisor_restarts_sigkilled_worker_and_grid_completes(
        self, tmp_path
    ):
        """Acceptance: SIGKILL one worker of a supervised fleet mid-grid;
        the supervisor restarts it and parity holds."""
        units = plan(tmp_path)
        commands = [
            dispatch.worker_command(
                tmp_path, index, jobs=1, lease_ttl=TTL, stagger=3,
                extra_args=["--poll", "0.05", "--max-idle", "60"],
            )
            for index in range(2)
        ]
        events = []
        supervisor = dispatch.FleetSupervisor(
            commands, max_restarts=2, backoff=FAST_RESTARTS,
            env=worker_env(), log=events.append,
        )
        supervisor.start()
        store = CellStore(tmp_path, lease_ttl=TTL)
        try:
            deadline = time.monotonic() + 120
            while not store.claim_names():
                supervisor.poll()
                assert not supervisor.fleet_dead(), "\n".join(events)
                assert time.monotonic() < deadline, "no worker ever claimed"
                time.sleep(0.005)
            victim = supervisor.processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            # Drive the supervisor until the restart is performed — a small
            # grid can otherwise complete inside the backoff window and
            # terminate() would cancel the pending respawn.
            restart_deadline = time.monotonic() + 60.0
            while supervisor.total_restarts() == 0:
                assert time.monotonic() < restart_deadline, "\n".join(events)
                supervisor.poll()
                time.sleep(0.02)

            dispatch.wait_for_grid(
                store, units, poll=0.05, timeout=240,
                should_abort=lambda: (supervisor.poll(),
                                      supervisor.fleet_dead())[1],
            )
        finally:
            supervisor.terminate()
        assert supervisor.total_restarts() >= 1, "\n".join(events)
        summary = supervisor.summary()
        assert any(-signal.SIGKILL in s["exit_codes"] for s in summary)
        assert not any(s["gave_up"] for s in summary), "\n".join(events)
        # The killed worker's claim is an orphan, not a leak: it ages out by
        # TTL.  Wait it out, then hold the full clean-store line.
        deadline = time.monotonic() + 4 * TTL
        while store.claim_names() or store.backend.stray_spools():
            assert time.monotonic() < deadline, store.claim_names()
            time.sleep(0.1)
            store.reap_stale()
        assert_store_matches_serial(tmp_path, units)
